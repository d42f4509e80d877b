"""Statement interchange formats: CSV and context-bundle N-Quads."""

import pytest

from ndfluents import (
    FormatError,
    Iri,
    Literal,
    XSD,
    annotate,
    read_annotated_nquads,
    read_statements_csv,
    write_annotated_nquads,
    write_statements_csv,
)
from ndfluents.formats import read_bundle_sidecar_csv, read_bundle_sidecar_turtle

from conftest import EX, corpus_registry, random_corpus
import random


def _sample_statements():
    return [
        annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1)),
        annotate(
            EX.Earth,
            EX.population,
            Literal("7000000000", datatype=XSD.integer),
            ("temporal", EX.y2011),
            ("provenance", EX.census),
        ),
        annotate(EX.Paris, EX.label, Literal("Paris", language="fr"), ("provenance", EX.census)),
        annotate(EX.Paris, EX.motto, Literal("Fluctuat"), ("temporal", EX.t1)),
    ]


class TestStatementsCsv:
    def test_round_trip(self):
        statements = _sample_statements()
        text = write_statements_csv(statements)
        assert set(read_statements_csv(text)) == set(statements)

    def test_round_trip_random_corpora(self):
        rng = random.Random(3)
        for serial in range(25):
            statements = random_corpus(rng, serial)
            assert set(read_statements_csv(write_statements_csv(statements))) == set(
                statements
            )

    def test_header_is_stable(self):
        text = write_statements_csv(_sample_statements()[:1])
        header = text.splitlines()[0]
        assert header.startswith("subject,predicate,object,objectType")

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError):
            read_statements_csv("a,b,c\n1,2,3\n")

    def test_row_without_context_rejected(self):
        text = write_statements_csv(_sample_statements()[:1])
        lines = text.splitlines()
        # Strip the dimension/context cells from the data row.
        cells = lines[1].split(",")
        broken = "\n".join([lines[0], ",".join(cells[:4])]) + "\n"
        with pytest.raises(FormatError):
            read_statements_csv(broken)

    def test_unknown_object_type_rejected(self):
        header = "subject,predicate,object,objectType,dim1,ctx1\n"
        row = "http://e.org/a,http://e.org/p,x,mystery,temporal,http://e.org/t\n"
        with pytest.raises(FormatError):
            read_statements_csv(header + row)


class TestPhysicalLineNumbers:
    """Every error names the physical line of its row, as `csv.Error`
    does, so the two agree after a blank line or a multi-line field."""

    @pytest.mark.parametrize(
        "before, line",
        [
            pytest.param("\n", 3, id="blank-line"),
            pytest.param(
                'http://e.org/a,http://e.org/p,"two\nlines",literal,temporal,http://e.org/t\n', 4, id="multi-line-field"
            ),
        ],
    )
    def test_statements_errors_name_the_line(self, before, line):
        header = "subject,predicate,object,objectType,dim1,ctx1\n"
        bad = "http://e.org/a,http://e.org/p,x,literal,temporal,t1\n"
        with pytest.raises(FormatError, match=f"^row {line}: IRI is not absolute"):
            read_statements_csv(header + before + bad)
        oversized = bad.replace("t1", "http://e.org/" + "t" * 131072)
        with pytest.raises(FormatError, match=f"^row {line}: field larger than field limit"):
            read_statements_csv(header + before + oversized)

    @pytest.mark.parametrize(
        "before, line",
        [
            pytest.param("\n", 3, id="blank-line"),
            pytest.param('http://e.org/b,"tem\nporal",http://e.org/t1\n', 4, id="multi-line-field"),
        ],
    )
    def test_sidecar_errors_name_the_line(self, before, line):
        header = "bundle,dimension,context\n"
        with pytest.raises(FormatError, match=f"^sidecar row {line}: IRI is not absolute"):
            read_bundle_sidecar_csv(header + before + "http://e.org/b,temporal,t1\n")
        with pytest.raises(FormatError, match=f"^sidecar row {line}: field larger than field limit"):
            read_bundle_sidecar_csv(header + before + "http://e.org/b,temporal,http://e.org/" + "t" * 131072 + "\n")


_HEADER = "subject,predicate,object,objectType,dim1,ctx1\n"
_SIDECAR = "bundle,dimension,context\n"


def _row(object_type="literal", pairs="temporal,http://e.org/t"):
    return _HEADER + f"http://e.org/s,http://e.org/p,x,{object_type},{pairs}\n"


class TestErrorMessages:
    """Every error text of the two CSV readers, word for word."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty statements CSV"),
            ("\n ,  \n", "empty statements CSV"),
            ("a,b,c\n", "bad header: expected subject,predicate,object,objectType,dim1,ctx1,..."),
            (_row(pairs="temporal"), "row 2: expected at least one (dimension, context) pair"),
            (
                _row(pairs="temporal,http://e.org/t,provenance"),
                "row 2: dangling dimension without a context IRI",
            ),
            (_row().replace("http://e.org/s", "s"), "row 2: IRI is not absolute (missing scheme): 's'"),
            (_row().replace("http://e.org/p", "p"), "row 2: IRI is not absolute (missing scheme): 'p'"),
            (_row(object_type="iri"), "row 2: IRI is not absolute (missing scheme): 'x'"),
            (_row(object_type="literal:int"), "row 2: IRI is not absolute (missing scheme): 'int'"),
            (
                _row(object_type="literal:http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"),
                "row 2: rdf:langString literal requires a language tag",
            ),
            (_row(object_type="literal@e n"), "row 2: invalid language tag: 'e n'"),
            (_row(object_type="mystery"), "row 2: unknown objectType 'mystery'"),
            (_row(pairs="temporal,t"), "row 2: IRI is not absolute (missing scheme): 't'"),
            (_row(pairs=","), "row 2: an annotated statement needs at least one context"),
            (
                _row(pairs="temporal,http://e.org/t,temporal,http://e.org/u"),
                "row 2: at most one context per dimension; split the statement instead",
            ),
            (_HEADER + "\n" + _row(object_type="mystery")[len(_HEADER):], "row 3: unknown objectType 'mystery'"),
            (_row(pairs="temporal,http://e.org/" + "t" * 131072), "row 2: field larger than field limit (131072)"),
        ],
    )
    def test_statements_csv(self, text, message):
        with pytest.raises(FormatError) as raised:
            read_statements_csv(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "bundle sidecar CSV needs header bundle,dimension,context"),
            ("bundle,dim\n", "bundle sidecar CSV needs header bundle,dimension,context"),
            (_SIDECAR + "http://e.org/b,temporal\n", "sidecar row 2: expected 3 columns"),
            (_SIDECAR + "http://e.org/b,temporal,http://e.org/t,x\n", "sidecar row 2: expected 3 columns"),
            (_SIDECAR + "b,temporal,http://e.org/t\n", "sidecar row 2: IRI is not absolute (missing scheme): 'b'"),
            (_SIDECAR + "http://e.org/b,temporal,t\n", "sidecar row 2: IRI is not absolute (missing scheme): 't'"),
            (_SIDECAR + "\nhttp://e.org/b,temporal,t\n", "sidecar row 3: IRI is not absolute (missing scheme): 't'"),
            (
                _SIDECAR + "http://e.org/b,temporal,http://e.org/" + "t" * 131072 + "\n",
                "sidecar row 2: field larger than field limit (131072)",
            ),
        ],
    )
    def test_bundle_sidecar_csv(self, text, message):
        with pytest.raises(FormatError) as raised:
            read_bundle_sidecar_csv(text)
        assert str(raised.value) == message


class TestAnnotatedNQuads:
    def test_round_trip_with_csv_sidecar(self):
        statements = _sample_statements()
        registry = corpus_registry()
        nquads, sidecar = write_annotated_nquads(statements)
        assert set(read_annotated_nquads(nquads, sidecar, registry)) == set(statements)

    def test_statements_sharing_a_context_set_share_a_bundle(self):
        statements = [
            annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1)),
            annotate(EX.c, EX.p, EX.d, ("temporal", EX.t1)),
            annotate(EX.e, EX.p, EX.f, ("temporal", EX.t2)),
        ]
        nquads, sidecar = write_annotated_nquads(statements)
        bundles = read_bundle_sidecar_csv(sidecar)
        assert len(bundles) == 2

    def test_default_graph_triples_rejected(self):
        statements = _sample_statements()[:1]
        nquads, sidecar = write_annotated_nquads(statements)
        nquads += "<http://example.org/x> <http://example.org/p> <http://example.org/y> .\n"
        with pytest.raises(FormatError):
            read_annotated_nquads(nquads, sidecar, corpus_registry())

    def test_bundle_missing_from_sidecar_rejected(self):
        statements = _sample_statements()[:1]
        nquads, _ = write_annotated_nquads(statements)
        empty_sidecar = "bundle,dimension,context\n"
        with pytest.raises(FormatError):
            read_annotated_nquads(nquads, empty_sidecar, corpus_registry())

    def test_turtle_sidecar(self):
        statements = _sample_statements()
        registry = corpus_registry()
        nquads, csv_sidecar = write_annotated_nquads(statements)
        # Rebuild the sidecar as Turtle: bundle --extent--> context per row.
        rows = [line.split(",") for line in csv_sidecar.splitlines()[1:]]
        turtle = "".join(
            f"<{bundle}> <{registry.get(dim).extent.value}> <{ctx}> .\n"
            for bundle, dim, ctx in rows
        )
        recovered = read_annotated_nquads(nquads, turtle, registry, sidecar_format="turtle")
        assert set(recovered) == set(statements)

    def test_turtle_sidecar_skips_triples_of_other_predicates(self):
        registry = corpus_registry()
        extent = registry.get("temporal").extent.value
        turtle = (
            f"<http://e.org/b> <{extent}> <http://e.org/t1> .\n"
            "<http://e.org/b> <http://e.org/note> <http://e.org/t2> .\n"
        )
        assert read_bundle_sidecar_turtle(turtle, registry) == {
            Iri("http://e.org/b"): [("temporal", Iri("http://e.org/t1"))]
        }

    @pytest.mark.parametrize(
        "bundle, context",
        [("_:b", "<http://e.org/t1>"), ("<http://e.org/b>", '"t1"'), ("<http://e.org/b>", "_:t1")],
        ids=["blank-bundle", "literal-context", "blank-context"],
    )
    def test_turtle_sidecar_refuses_a_triple_that_does_not_link_iris(self, bundle, context):
        registry = corpus_registry()
        turtle = f"{bundle} <{registry.get('temporal').extent.value}> {context} .\n"
        with pytest.raises(FormatError, match=r"^sidecar triple must link IRIs: "):
            read_bundle_sidecar_turtle(turtle, registry)

    @pytest.mark.parametrize(
        "turtle", ["", "<http://e.org/b> <http://e.org/note> <http://e.org/t1> .\n"], ids=["empty", "no-extent"]
    )
    def test_turtle_sidecar_without_an_extent_triple_rejected(self, turtle):
        message = "turtle sidecar declares no bundles via registered extent properties"
        with pytest.raises(FormatError) as raised:
            read_bundle_sidecar_turtle(turtle, corpus_registry())
        assert str(raised.value) == message

    def test_unknown_sidecar_format_rejected(self):
        nquads, sidecar = write_annotated_nquads(_sample_statements()[:1])
        with pytest.raises(FormatError):
            read_annotated_nquads(nquads, sidecar, corpus_registry(), sidecar_format="json")
