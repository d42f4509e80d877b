"""N-Triples, N-Quads, and Turtle parsing."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfluents import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Namespace,
    ParseError,
    RDF_TYPE,
    RelativeIriError,
    Triple,
    XSD,
    parse,
    parse_nquads,
    parse_ntriples,
    parse_turtle,
    serialize,
)
from ndfluents.parser import normalize_format
from ndfluents.serializer import canonicalize

EX = Namespace("http://example.org/")


class TestFormats:
    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("nt", "ntriples"),
            ("ntriples", "ntriples"),
            ("nq", "nquads"),
            ("nquads", "nquads"),
            ("ttl", "turtle"),
            ("turtle", "turtle"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_format(alias) == canonical

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            normalize_format("xml")


class TestNTriples:
    def test_single_triple(self):
        g = parse_ntriples("<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n")
        assert g == Graph([Triple(EX.s, EX.p, EX.o)])

    def test_literals(self):
        doc = (
            '<http://example.org/s> <http://example.org/p> "plain" .\n'
            '<http://example.org/s> <http://example.org/p> "fr"@fr .\n'
            '<http://example.org/s> <http://example.org/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )
        g = parse_ntriples(doc)
        assert Triple(EX.s, EX.p, Literal("plain")) in g
        assert Triple(EX.s, EX.p, Literal("fr", language="fr")) in g
        assert Triple(EX.s, EX.p, Literal("5", datatype=XSD.integer)) in g

    def test_escape_sequences(self):
        g = parse_ntriples('<http://e.org/s> <http://e.org/p> "a\\"b\\nc\\td" .\n')
        (t,) = g
        assert t.object == Literal('a"b\nc\td')

    def test_blank_nodes_relabeled_in_first_occurrence_order(self):
        doc = "_:x <http://e.org/p> _:y .\n_:y <http://e.org/p> _:x .\n"
        g = parse_ntriples(doc)
        labels = {term.label for t in g for term in (t.subject, t.object)}
        assert labels == {"b0", "b1"}
        # _:x appeared first in the document, so it becomes b0.
        by_subject = {t.subject.label: t.object.label for t in g}
        assert by_subject == {"b0": "b1", "b1": "b0"}

    def test_comments_and_blank_lines_skipped(self):
        doc = "# comment\n\n<http://e.org/s> <http://e.org/p> <http://e.org/o> . # trailing\n"
        assert len(parse_ntriples(doc)) == 1

    def test_missing_object_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_ntriples("<http://e.org/a> <http://e.org/b> .\n")
        assert err.value.line == 1

    def test_missing_dot_is_an_error(self):
        with pytest.raises(ParseError):
            parse_ntriples("<http://e.org/a> <http://e.org/b> <http://e.org/c>\n")

    def test_bytes_input_accepted(self):
        doc = b"<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n"
        assert len(parse_ntriples(doc)) == 1


class TestNQuads:
    def test_groups_by_graph_label(self):
        doc = (
            "<http://e.org/a> <http://e.org/p> <http://e.org/b> <http://e.org/g1> .\n"
            "<http://e.org/c> <http://e.org/p> <http://e.org/d> <http://e.org/g1> .\n"
            "<http://e.org/e> <http://e.org/p> <http://e.org/f> .\n"
        )
        graphs = parse_nquads(doc)
        by_name = {g.name: g for g in graphs}
        assert set(by_name) == {Iri("http://e.org/g1"), None}
        assert len(by_name[Iri("http://e.org/g1")]) == 2
        assert len(by_name[None]) == 1


class TestTurtle:
    def test_prefixes_semicolons_commas_and_a(self):
        doc = """\
@prefix ex: <http://example.org/> .
ex:s a ex:Thing ;
    ex:p ex:o1 , ex:o2 .
"""
        g = parse_turtle(doc)
        assert g == Graph(
            [
                Triple(EX.s, RDF_TYPE, EX.Thing),
                Triple(EX.s, EX.p, EX.o1),
                Triple(EX.s, EX.p, EX.o2),
            ]
        )

    def test_repeated_semicolons(self):
        # predicateObjectList ::= verb objectList (';' (verb objectList)?)*
        doc = "@prefix ex: <http://example.org/> . ex:a ex:p ex:b ;; ex:q ex:c ; ; .\nex:d ex:p ex:e ;.\n"
        assert parse_turtle(doc) == Graph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.q, EX.c), Triple(EX.d, EX.p, EX.e)]
        )

    def test_semicolon_rejected_in_ntriples(self):
        with pytest.raises(ParseError) as err:
            parse_ntriples("<http://e.org/s> <http://e.org/p> <http://e.org/o> ; .\n")
        assert (err.value.reason, err.value.column) == ("expected ., got ; ';'", 52)

    def test_digit_leading_prefix(self):
        doc = """\
@prefix 4d: <http://example.org/> .
4d:s 4d:p 4d:o .
"""
        assert len(parse_turtle(doc)) == 1

    def test_base_resolves_relative_iris(self):
        doc = '@base <http://example.org/> .\n<s> <p> <o> .\n'
        g = parse_turtle(doc)
        assert Triple(EX.s, EX.p, EX.o) in g

    def test_numbers_and_unicode_local_names(self):
        doc = "@prefix ex: <http://e.org/> .\nex:São_Paulo ex:p 5, -0.5, -.5, +7, 4.0 .\n"
        city, p = Iri("http://e.org/São_Paulo"), Iri("http://e.org/p")
        numbers = [("5", XSD.integer), ("-0.5", XSD.decimal), ("-.5", XSD.decimal), ("+7", XSD.integer), ("4.0", XSD.decimal)]
        assert parse_turtle(doc) == Graph(Triple(city, p, Literal(text, datatype=dt)) for text, dt in numbers)

    def test_relative_iri_without_base_rejected(self):
        with pytest.raises(RelativeIriError):
            parse_turtle("<s> <p> <o> .\n")

    def test_unknown_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_turtle("ex:s ex:p ex:o .\n")

    def test_capital_statement_sample_parses_to_ten_triples(self):
        doc = """\
@prefix 4d: <http://purl.org/NET/ndfluents/4dFluents#> .
@prefix ex: <http://example.org/> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:capitalOf a owl:ObjectProperty ;
    rdfs:subPropertyOf 4d:fluentProperty .
ex:Paris-508 a 4d:TemporalPart ;
    4d:temporalPartOf ex:Paris ;
    4d:temporalExtent ex:508 ;
    ex:capitalOf ex:France-508 .
ex:France-508 a 4d:TemporalPart ;
    4d:temporalPartOf ex:France ;
    4d:temporalExtent ex:508 .
ex:508 a 4d:Interval .
"""
        g = parse_turtle(doc)
        assert len(g) == 10

    def test_parse_dispatch(self):
        nt = "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n"
        assert isinstance(parse(nt, "nt"), Graph)
        assert isinstance(parse(nt, "nq"), list)
        assert isinstance(parse(nt, "ttl"), Graph)


S, P, O = "<http://e.org/s>", "<http://e.org/p>", "<http://e.org/o>"
T = f"{S} {P} {O} .\n"
PFX = "@prefix ex: <http://e.org/> .\n"

# Every error the parser raises, with its position: (format, document,
# exception type, reason, line, column). Only "\n" starts a line; "\r" and
# tab each count as one column, as does a non-ASCII character.
PARSE_ERRORS = [
    ("nt", b"\xff", "ParseError", "input is not valid UTF-8: invalid start byte", 1, 1),
    # IRIs
    ("nt", f"{S} {P} <http://e.org/o", "ParseError", "unterminated IRI", 1, 35),
    ("nt", f"{S} {P} <http://e\n.org/o> .\n", "ParseError", "newline inside IRI", 1, 44),
    ("nt", f"{T}<a b> {P} {O} .\n", "ParseError", "forbidden character ' ' in IRI", 2, 3),
    ("nt", f"{S} {P} <http://e.org/\\u00E9 x> .\n", "ParseError", "forbidden character ' ' in IRI", 1, 55),
    ("nt", f"{S} {P} <http://e.org/é x> .\n", "ParseError", "forbidden character ' ' in IRI", 1, 50),
    ("nt", f'{S} {P} "é" <a b> .\n', "ParseError", "forbidden character ' ' in IRI", 1, 41),
    ("nt", f'"lit" <a b> {O} .\n', "ParseError", "forbidden character ' ' in IRI", 1, 9),
    ("ttl", f"{PFX[:-1]}\r\nex:s ex:p ex:o ;\r\n\tex:q \"a\tb\" ,\r\n\t\t<http://e.org/\\u00e9\\u00e9 x> .\r\n",
     "ParseError", "forbidden character ' ' in IRI", 4, 29),
    ("nt", f"{S} {P} <http://e.org/\\n> .\n", "ParseError", "unsupported escape \\n", 1, 49),
    ("nt", f"{S} {P} <http://e.org/\\", "ParseError", "unsupported escape \\", 1, 49),
    ("nt", f"{S} {P} <http://e.org/\\u+04A> .\n", "ParseError", "malformed \\u escape", 1, 49),
    ("ttl", "@base <http://e.org/> .\n<s> <p> <http://e.org/o\tx> .\n", "ParseError",
     "IRI contains forbidden character: 'http://e.org/o\\tx'", 2, 9),
    ("ttl", f"{S} {P} <http://e.org/\\u0020> .\n", "ParseError",
     "IRI contains forbidden character: 'http://e.org/ '", 1, 35),
    ("ttl", "<s> <p> <o> .\n", "RelativeIriError", "relative IRI 's' with no base", 1, 1),
    ("ttl", f'{S} {P} "x"^^<dt> .\n', "RelativeIriError", "relative IRI 'dt' with no base", 1, 40),
    # string literals
    ("nt", f'{S} {P} "x\\u+04A" .\n', "ParseError", "malformed \\u escape", 1, 37),
    ("nt", f'{S} {P} "x\\u00" .\n', "ParseError", "malformed \\u escape", 1, 37),
    ("nt", f'{S} {P} "x\\U0001F60" .\n', "ParseError", "malformed \\u escape", 1, 37),
    ("nt", f'{S} {P} "abc', "ParseError", "unterminated string literal", 1, 35),
    ("nt", f'{T}{S} {P} "x\r\n', "ParseError", "newline inside string literal", 2, 37),
    ("nt", f'{S} {P} "a\\qb" .\n', "ParseError", "unsupported escape \\q", 1, 37),
    ("nt", f'{S} {P} "a\\', "ParseError", "unsupported escape \\", 1, 37),
    ("nt", f'{S} {P} "x"@ .\n', "ParseError", "malformed language tag @", 1, 38),
    ("nt", f'{S} {P} "x"@en- .\n', "ParseError", "malformed language tag @en-", 1, 38),
    ("nt", f'{S} {P} "x"^^"y" .\n', "ParseError", "expected datatype IRI after ^^", 1, 40),
    ("nt", f'{S} {P} "x"^^ex:dt .\n', "ParseError", "expected datatype IRI after ^^", 1, 40),
    ("ttl", f'{S} {P} "x"^^ex:dt .\n', "ParseError", "undefined prefix 'ex:'", 1, 40),
    # blank nodes, names and stray characters
    ("nt", f"_: {P} {O} .\n", "ParseError", "empty blank node label", 1, 1),
    ("nt", f"_:... {P} {O} .\n", "ParseError", "empty blank node label", 1, 1),
    ("ttl", f"{PFX}ex:s ex:p ex:o. ex:t ex:p ex:o.\n_:a ex:p _:b.\n_:\n", "ParseError",
     "empty blank node label", 4, 1),
    ("ttl", f"{S} {P} ^x .\n", "ParseError", "unexpected character '^'", 1, 35),
    ("ttl", f"{S} {P} {{ .\n", "ParseError", "unexpected character '{'", 1, 35),
    ("ttl", f"{PFX}ex:s ex:p foo .\n", "ParseError", "expected ':' in prefixed name, got 'foo'", 2, 11),
    ("ttl", "# comment <bad\n\tex:s ex:p ex:o .\n", "ParseError", "undefined prefix 'ex:'", 2, 2),
    # statements
    ("nt", f"{S} {P} .\n", "ParseError", "expected object term, got . '.'", 1, 35),
    ("nt", f"{S} {P} {O}\n", "ParseError", "expected ., got EOF ''", 2, 1),
    ("nt", f"{S} {P} {O} # c", "ParseError", "expected ., got EOF ''", 1, 55),
    ("nt", f"{S} {P} {O} <http://e.org/g> .\n", "ParseError", "expected ., got IRIREF 'http://e.org/g'", 1, 52),
    ("nt", f'{S} {P} "x" "y\\u00e9" .\n', "ParseError", "expected ., got STRING 'yé'", 1, 39),
    ("nt", f"{S} {P} {O} ^^ .\n", "ParseError", "expected ., got ^^ '^^'", 1, 52),
    ("nt", f"{S} {P} {O} @en .\n", "ParseError", "expected ., got LANGTAG 'en'", 1, 52),
    ("nt", f"{S} {P} {O} _:b .\n", "ParseError", "expected ., got BLANK 'b'", 1, 52),
    ("nt", f"{S} {P} {O} , {O} .\n", "ParseError", "expected ., got , ','", 1, 52),
    ("ttl", f"{PFX}ex:s ex:p ex:o\nex:t ex:p ex:o .\n", "ParseError", "expected ., got PNAME 't'", 3, 1),
    ("ttl", f"{PFX}ex:s ; ex:p ex:o .\n", "ParseError", "expected predicate term, got ; ';'", 2, 6),
    ("ttl", "@base <http://e.org/> .\n@base <rel/> .\n<s> <p> <o> ,\n", "ParseError",
     "expected object term, got EOF ''", 4, 1),
    ("nt", f"{S} a {O} .\n", "ParseError", "expected predicate term, got a 'a'", 1, 18),
    ("ttl", f"a {P} {O} .\n", "ParseError", "expected subject term, got a 'a'", 1, 1),
    ("nt", f". {P} {O} .\n", "ParseError", "expected subject term, got . '.'", 1, 1),
    ("nt", f'"lit" {P} {O} .\n', "ParseError", "subject must not be a literal", 1, 1),
    ("nt", f"{S} _:b {O} .\n", "ParseError", "predicate must be an IRI", 1, 18),
    ("nq", f'{S} {P} {O} "g" .\n', "ParseError", "graph label must be an IRI", 1, 52),
    ("nq", f"{S} {P} {O} _:g .\n", "ParseError", "graph label must be an IRI", 1, 52),
    ("nt", f"{S} {P} ex:o .\n", "ParseError", "prefixed names are not allowed in this format", 1, 35),
    ("nt", f"{S} {P} 5 .\n", "ParseError", "expected object term, got NUMBER '5'", 1, 35),
    ("ttl", f"?x {P} {O} .\n", "ParseError", "expected subject term, got VAR 'x'", 1, 1),
    # directives
    ("nt", PFX, "ParseError", "directives are not allowed in this format", 1, 1),
    ("ttl", "@prefix ex:foo <http://e.org/> .\n", "ParseError", "expected bare prefix (e.g. ex:) in @prefix", 1, 9),
    ("ttl", '@prefix ex: "x" .\n', "ParseError", "expected IRIREF, got STRING 'x'", 1, 13),
    ("ttl", "@prefix <http://e.org/> .\n", "ParseError", "expected PNAME, got IRIREF 'http://e.org/'", 1, 9),
    ("ttl", "@base .\n", "ParseError", "expected IRIREF, got . '.'", 1, 7),
]


@pytest.mark.parametrize("fmt,document,kind,reason,line,column", PARSE_ERRORS)
def test_parse_error_reason_and_position(fmt, document, kind, reason, line, column):
    with pytest.raises(ParseError) as err:
        parse(document, fmt)
    assert (type(err.value).__name__, err.value.reason, err.value.line, err.value.column) == (
        kind, reason, line, column
    )


@pytest.mark.parametrize(
    "fmt,document,reason,column",
    [
        ("nt", f'{S} {P} "x\\U00110000" .\n', "malformed \\u escape", 37),
        ("nt", f'{S} {P} "x\\UFFFFFFFF" .\n', "malformed \\u escape", 37),
        (
            "nt",
            f'{S} {P} "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .\n',
            "rdf:langString literal requires a language tag",
            40,
        ),
    ],
)
def test_invalid_terms_raise_parse_errors(fmt, document, reason, column):
    with pytest.raises(ParseError) as err:
        parse(document, fmt)
    assert (err.value.reason, err.value.line, err.value.column) == (reason, 1, column)


@pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
def test_each_distinct_iri_is_one_object(fmt):
    doc = f"{S} {P} {S} .\n{O} {P} {S} .\n<http://www.w3.org/2001/XMLSchema#string> {P} \"x\" .\n"
    terms = [term for t in parse(doc, fmt) for term in (t.subject, t.predicate, t.object)]
    terms += [t.object.datatype for t in parse(doc, fmt) if isinstance(t.object, Literal)]
    by_value: dict[str, set[int]] = {}
    for term in terms:
        if isinstance(term, Iri):
            by_value.setdefault(term.value, set()).add(id(term))
    assert by_value and all(len(ids) == 1 for ids in by_value.values())


# --- properties ----------------------------------------------------------

_unicode = st.characters(blacklist_categories=("Cs",))
_iris = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=0x21, blacklist_characters='<>"{}|^`\\'),
    min_size=1,
    max_size=8,
).map(lambda local: Iri(f"http://example.org/{local}"))
_texts = st.text(alphabet=st.one_of(_unicode, st.sampled_from('\b\f\r\n\t"\\\'')), max_size=12)
_literals = st.one_of(
    _texts.map(Literal),
    _texts.map(lambda s: Literal(s, language="en-GB")),
    st.builds(lambda s, dt: Literal(s, datatype=dt), _texts, _iris),
)
_graphs = st.lists(st.builds(Triple, _iris, _iris, st.one_of(_iris, _literals)), max_size=12).map(Graph)


@settings(max_examples=200, deadline=None)
@given(_graphs, st.sampled_from(["ntriples", "turtle"]))
def test_round_trip_over_the_unicode_range(graph, fmt):
    text = serialize(graph, fmt, prefixes={"ex": "http://example.org/"})
    assert parse(text, fmt) == graph


# Shared subjects, predicates and blank nodes, so that the Turtle has `;`,
# `,`, `a` and `_:` tokens.
_nodes = st.sampled_from([EX.s, EX.t, BlankNode("x"), BlankNode("y")])
_shared_graphs = st.lists(
    st.builds(
        Triple,
        st.one_of(_nodes, _iris),
        st.one_of(st.sampled_from([EX.p, EX.q, RDF_TYPE]), _iris),
        st.one_of(_nodes, _iris, _literals),
    ),
    max_size=12,
).map(lambda triples: canonicalize(Graph(triples)))
# A token of the serializer's output: a run without space, tab or line
# break, except inside a quoted literal.
_SERIALIZED_TOKEN_RE = re.compile(r'(?:"(?:[^"\\]|\\.)*"|[^ \t\r\n"])+')
_separators = st.lists(
    st.one_of(
        st.sampled_from([" ", "\t", "\n", "\r", "\r\n"]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=8).map(
            lambda comment: f"#{comment}\n"
        ),
    ),
    min_size=1,
    max_size=3,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(_shared_graphs, st.data())
def test_turtle_reads_back_with_any_whitespace_and_comments_between_tokens(graph, data):
    text = serialize(graph, "turtle", prefixes={"ex": "http://example.org/"})
    tokens = _SERIALIZED_TOKEN_RE.findall(text)
    spaced = "".join(data.draw(_separators) + token for token in tokens) + data.draw(_separators)
    assert parse_turtle(spaced) == graph


_VALID_DOCUMENTS = [
    ("nt", f'{T}_:a {P} "tab\\t quote\\" \\u00e9\\U0001F600"@en-GB .\r\n'
           f'_:a {P} "5"^^<http://www.w3.org/2001/XMLSchema#integer> . # end\n'),
    ("nq", f"{S} {P} {O} <http://e.org/g> .\n{S} {P} \"x\" .\n"),
    ("ttl", f"{PFX}@base <http://b.org/> .\n# comment\nex:s a ex:T ;\n\tex:p \"é\\n\"@fr , <rel> ;\n"
            '  ex:q _:x . _:x ex:r "1"^^ex:int .\n'),
]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_VALID_DOCUMENTS),
    st.sampled_from(["delete", "insert", "replace"]),
    st.one_of(st.sampled_from(list(' \t\r\n<>"\\_:.;,@^#{}|a-uU')), _unicode),
    st.data(),
)
def test_a_one_character_edit_parses_or_raises_a_positioned_parse_error(document, edit, char, data):
    fmt, text = document
    at = data.draw(st.integers(0, len(text) - 1))
    if edit == "delete":
        text = text[:at] + text[at + 1:]
    elif edit == "insert":
        text = text[:at] + char + text[at:]
    else:
        text = text[:at] + char + text[at + 1:]
    try:
        parse(text, fmt)
    except ParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1
        assert err.column >= 1
